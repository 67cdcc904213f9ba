//! Hand-rolled argument parsing for the `gtinker` CLI (no external
//! dependencies; the grammar is small and fully tested).

use std::collections::HashMap;

/// A parsed command line: subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options and bare `--flag`s (value = empty string).
    pub options: HashMap<String, String>,
}

/// Options that take no value (everything else consumes the next token).
const BARE_FLAGS: &[&str] = &[
    "no-sgh",
    "no-cal",
    "compact",
    "baseline",
    "help",
    "final-snapshot",
    "pipeline",
    "stats",
    "analytics",
    // Accepted and ignored: the degree-adaptive layout is the default.
    "adaptive",
    "paper-layout",
    "hold",
    "validate",
    "verify",
];

/// Parses a raw argument vector (excluding the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut iter = args.into_iter().peekable();
    while let Some(tok) = iter.next() {
        if let Some(key) = tok.strip_prefix("--") {
            if key.is_empty() {
                return Err("empty option name '--'".into());
            }
            if BARE_FLAGS.contains(&key) {
                parsed.options.insert(key.to_string(), String::new());
            } else {
                let value = iter.next().ok_or_else(|| format!("option --{key} expects a value"))?;
                parsed.options.insert(key.to_string(), value);
            }
        } else if parsed.command.is_empty() {
            parsed.command = tok;
        } else {
            parsed.positional.push(tok);
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("option --{name}: bad value '{v}'")),
        }
    }

    /// The single positional argument (e.g. an input file), if required.
    pub fn input(&self) -> Result<&str, String> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(format!("'{}' expects an input file", self.command)),
            _ => Err(format!("'{}' expects exactly one input file", self.command)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Parsed {
        parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_command_positional_and_options() {
        let a = p(&["bfs", "edges.txt", "--root", "5", "--mode", "fp"]);
        assert_eq!(a.command, "bfs");
        assert_eq!(a.input().unwrap(), "edges.txt");
        assert_eq!(a.num::<u32>("root", 0).unwrap(), 5);
        assert_eq!(a.get("mode"), Some("fp"));
    }

    #[test]
    fn bare_flags_do_not_consume_values() {
        let a = p(&["stats", "edges.txt", "--compact", "--pagewidth", "32"]);
        assert!(a.flag("compact"));
        assert_eq!(a.num::<usize>("pagewidth", 64).unwrap(), 32);
        assert_eq!(a.input().unwrap(), "edges.txt");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse(["generate".to_string(), "--out".to_string()]).unwrap_err();
        assert!(e.contains("--out"));
    }

    #[test]
    fn defaults_and_bad_numbers() {
        let a = p(&["pagerank", "f", "--iterations", "abc"]);
        assert!(a.num::<usize>("iterations", 20).is_err());
        assert_eq!(a.num::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn input_arity_errors() {
        assert!(p(&["bfs"]).input().is_err());
        assert!(p(&["bfs", "a", "b"]).input().is_err());
    }
}
