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

/// Options that take no value.
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
    "paper-layout",
    "hold",
    "validate",
    "verify",
];

/// Options that consume the next token as their value.
const VALUE_OPTIONS: &[&str] = &[
    "addr",
    "batch",
    "churn-every",
    "dataset",
    "dir",
    "edges",
    "format",
    "iterations",
    "log",
    "mode",
    "out",
    "pagewidth",
    "pool",
    "restart",
    "rmat-scale",
    "root",
    "scale-factor",
    "seed",
    "serve",
    "shards",
    "slow-query-ms",
    "snapshot-every",
    "sync",
    "top",
    "wal",
    "workers",
];

/// Parses a raw argument vector (excluding the program name). An option
/// name in neither table is an error: guessing whether a misspelt name
/// takes a value would silently swallow the next token.
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
            } else if VALUE_OPTIONS.contains(&key) {
                let value = iter.next().ok_or_else(|| format!("option --{key} expects a value"))?;
                parsed.options.insert(key.to_string(), value);
            } else {
                return Err(format!("unknown option --{key}"));
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
    fn unknown_options_are_rejected_by_name() {
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        // A value option nobody reads.
        assert_eq!(err(&["bfs", "edges.txt", "--rooot", "5"]), "unknown option --rooot");
        // A misspelt bare flag must not swallow the input file.
        assert_eq!(err(&["bfs", "--verfy", "edges.txt"]), "unknown option --verfy");
        // The retired no-op is gone, not a value option in disguise.
        assert_eq!(err(&["stats", "--adaptive", "edges.txt"]), "unknown option --adaptive");
    }

    #[test]
    fn command_lines_of_ci_and_benchmark_parse() {
        // The option set `scripts/ci.sh` and `benchmark/` pass today.
        let lines: &[&[&str]] = &[
            &["generate", "--dataset", "Hollywood-2009", "--scale-factor", "512", "--out", "g"],
            &["generate", "--rmat-scale", "17", "--edges", "500000", "--seed", "3", "--out", "g"],
            &["ingest", "g", "--wal", "db", "--batch", "1024", "--snapshot-every", "4"],
            &["ingest", "g", "--wal", "db", "--batch", "1024", "--stats"],
            &[
                "ingest",
                "g",
                "--wal",
                "db",
                "--serve",
                "127.0.0.1:0",
                "--hold",
                "--batch",
                "10000",
                "--sync",
                "8",
                "--pool",
                "2",
                "--pipeline",
                "--workers",
                "2",
            ],
            &["recover", "db", "--root", "0", "--validate"],
            &["stats", "g", "--paper-layout", "--format", "json"],
            &[
                "cc",
                "g",
                "--restart",
                "incremental",
                "--churn-every",
                "5",
                "--batch",
                "512",
                "--verify",
            ],
            &[
                "trace",
                "g",
                "--wal",
                "db",
                "--sync",
                "never",
                "--pool",
                "4",
                "--pipeline",
                "--analytics",
            ],
            &["serve", "g", "--addr", "127.0.0.1:0", "--slow-query-ms", "0"],
            &["serve", "db", "--shards", "2", "--workers", "2"],
        ];
        for line in lines {
            let parsed = parse(line.iter().map(|s| s.to_string()));
            assert_eq!(parsed.map(|a| a.command), Ok(line[0].to_string()), "{line:?}");
        }
        for key in VALUE_OPTIONS {
            assert!(!BARE_FLAGS.contains(key), "--{key} is in both tables");
        }
    }

    #[test]
    fn input_arity_errors() {
        assert!(p(&["bfs"]).input().is_err());
        assert!(p(&["bfs", "a", "b"]).input().is_err());
    }
}
