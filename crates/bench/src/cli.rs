//! Argument handling for the `gtinker-bench` binary.

/// Common experiment parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset shrink factor (1 = paper-reported sizes).
    pub scale_factor: u32,
    /// Number of update batches per stream.
    pub batches: usize,
    /// Thread counts for the multicore experiment.
    pub threads: Vec<usize>,
    /// Directory results are written to.
    pub out_dir: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale_factor: 64,
            batches: 10,
            threads: vec![1, 2, 4, 8],
            out_dir: "results".to_string(),
        }
    }
}

/// Each option's environment variable and command-line flag.
const OPTIONS: [(&str, &str); 4] = [
    ("GT_SCALE_FACTOR", "--scale-factor"),
    ("GT_BATCHES", "--batches"),
    ("GT_THREADS", "--threads"),
    ("GT_OUT_DIR", "--out-dir"),
];

impl Args {
    /// Builds arguments from the environment (`GT_SCALE_FACTOR`,
    /// `GT_BATCHES`, `GT_THREADS`, `GT_OUT_DIR`) and then `argv`
    /// (`--scale-factor N`, `--batches N`, `--threads a,b,c`,
    /// `--out-dir PATH`), with the command line winning. Returns the
    /// arguments and the words that are not options, in order; a malformed
    /// value or an unknown flag is an error naming it.
    pub fn parse(argv: &[String]) -> Result<(Args, Vec<String>), String> {
        let mut args = Args::default();
        for (var, flag) in OPTIONS {
            if let Ok(v) = std::env::var(var) {
                args.set(flag, &v).map_err(|e| format!("{var}: {e}"))?;
            }
        }
        let mut words = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.set(a, v)?;
            } else {
                words.push(a.clone());
            }
        }
        args.scale_factor = args.scale_factor.max(1);
        args.batches = args.batches.max(1);
        Ok((args, words))
    }

    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        match flag {
            "--scale-factor" => self.scale_factor = number(flag, value)?,
            "--batches" => self.batches = number(flag, value)?,
            "--threads" => self.threads = parse_list(value)?,
            "--out-dir" => self.out_dir = value.to_string(),
            _ => return Err(format!("unknown flag {flag}")),
        }
        Ok(())
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.trim().parse().map_err(|_| format!("{flag}: '{value}' is not a number"))
}

/// A comma-separated list of positive thread counts.
fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|t| match number("--threads", t)? {
            0 => Err(format!("--threads: 0 in '{s}'")),
            n => Ok(n),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<(Args, Vec<String>), String> {
        Args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_are_sane() {
        let a = Args::default();
        assert_eq!(a.scale_factor, 64);
        assert_eq!(a.batches, 10);
        assert_eq!(a.threads, vec![1, 2, 4, 8]);
    }

    #[test]
    fn list_parsing() {
        assert_eq!(parse_list("1,2, 4"), Ok(vec![1, 2, 4]));
        assert!(parse_list("x,0,3").is_err());
        assert!(parse_list("2,0").is_err());
        assert!(parse_list("").is_err());
    }

    #[test]
    fn flags_and_words_split_in_order() {
        let (a, words) =
            parse(&["fig11_bfs", "--scale-factor", "2048", "fig13_cc", "--threads", "1,2"])
                .unwrap();
        assert_eq!((a.scale_factor, a.threads), (2048, vec![1, 2]));
        assert_eq!(words, ["fig11_bfs", "fig13_cc"]);
    }

    #[test]
    fn malformed_number_is_an_error() {
        let e = parse(&["all", "--scale-factor", "2o48"]).unwrap_err();
        assert!(e.contains("--scale-factor") && e.contains("2o48"), "{e}");
        assert!(parse(&["--batches", "-3"]).is_err());
        assert!(parse(&["--batches"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(parse(&["all", "--scale", "64"]).unwrap_err(), "unknown flag --scale");
    }
}
