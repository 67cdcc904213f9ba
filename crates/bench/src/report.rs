//! Result tables: aligned console output, TSV persistence, and the one
//! `BENCH_<name>.json` emitter for an experiment's machine-readable facts.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use gtinker_core::trace::json_escape;

/// Million edges per second.
pub fn meps(edges: u64, dur: Duration) -> f64 {
    let secs = dur.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        edges as f64 / secs / 1e6
    }
}

/// The value of one named fact of an experiment's JSON artifact. Facts
/// are scalars; `Obj` and `List` exist for the two artifacts that carry a
/// series (`fig_persist`, `fig10_analytics`).
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// A count.
    Int(u64),
    /// A measurement, rendered like [`f3`].
    Float(f64),
    /// A label.
    Str(String),
    /// Named facts, in order.
    Obj(Vec<(&'static str, Fact)>),
    /// A series.
    List(Vec<Fact>),
}

impl Fact {
    fn render(&self) -> String {
        match self {
            Fact::Int(n) => n.to_string(),
            Fact::Float(x) => f3(*x),
            Fact::Str(s) => quoted(s),
            Fact::Obj(fields) => {
                let fields: Vec<String> =
                    fields.iter().map(|(k, v)| format!("{}: {}", quoted(k), v.render())).collect();
                format!("{{{}}}", fields.join(", "))
            }
            Fact::List(items) => {
                format!("[{}]", items.iter().map(Fact::render).collect::<Vec<_>>().join(", "))
            }
        }
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

impl From<u64> for Fact {
    fn from(n: u64) -> Self {
        Fact::Int(n)
    }
}

impl From<usize> for Fact {
    fn from(n: usize) -> Self {
        Fact::Int(n as u64)
    }
}

impl From<f64> for Fact {
    fn from(x: f64) -> Self {
        Fact::Float(x)
    }
}

/// A simple result table: header row plus data rows of equal arity, and
/// the experiment's named facts.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (used as the TSV file stem).
    pub name: String,
    /// One-line description printed above the table.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Named facts in insertion order; a table with none writes no JSON.
    pub facts: Vec<(String, Fact)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, caption: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Appends a row; panics if the arity does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch in table {}", self.name);
        self.rows.push(row);
    }

    /// Appends a named fact to the JSON artifact.
    pub fn fact(&mut self, name: &str, value: impl Into<Fact>) {
        self.facts.push((name.to_string(), value.into()));
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.name, self.caption));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the facts as a JSON object, one `"name": value` line each
    /// in insertion order, led by `"benchmark": "<name>"`.
    pub fn json(&self) -> String {
        let mut out = format!("{{\n  \"benchmark\": {}", quoted(&self.name));
        for (name, value) in &self.facts {
            out.push_str(&format!(",\n  {}: {}", quoted(name), value.render()));
        }
        out + "\n}\n"
    }

    /// Writes the table as `<out_dir>/<name>.tsv` and, when it has facts,
    /// `<out_dir>/BENCH_<name>.json`.
    pub fn write(&self, out_dir: &str) -> std::io::Result<()> {
        fs::create_dir_all(out_dir)?;
        let path = Path::new(out_dir).join(format!("{}.tsv", self.name));
        let mut f = fs::File::create(path)?;
        writeln!(f, "# {}", self.caption)?;
        writeln!(f, "{}", self.headers.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        if !self.facts.is_empty() {
            fs::write(Path::new(out_dir).join(format!("BENCH_{}.json", self.name)), self.json())?;
        }
        Ok(())
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as `N.NNx`.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meps_math() {
        assert!((meps(2_000_000, Duration::from_secs(1)) - 2.0).abs() < 1e-9);
        assert_eq!(meps(5, Duration::from_secs(0)), 0.0);
    }

    #[test]
    fn table_renders_and_persists() {
        let mut t = Table::new("unit_test_table", "caption", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("caption"));
        assert!(s.contains("bb"));
        let dir = std::env::temp_dir().join("gtinker_bench_test");
        t.write(dir.to_str().unwrap()).unwrap();
        let tsv = std::fs::read_to_string(dir.join("unit_test_table.tsv")).unwrap();
        assert!(tsv.contains("a\tbb"));
        assert!(tsv.contains("1\t2"));
        assert!(!dir.join("BENCH_unit_test_table.json").exists(), "no facts, no JSON");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn emitter_renders_facts_in_insertion_order() {
        let mut t = Table::new("unit_test_facts", "caption", &["a"]);
        t.fact("ops", 80_000u64);
        t.fact("overhead_pct", 4.99951);
        t.fact("label", Fact::Str("tab\there \"quoted\" \u{1}".into()));
        t.fact("recovery", Fact::List(vec![Fact::Obj(vec![("records", 4usize.into())])]));
        let want = "{\n  \"benchmark\": \"unit_test_facts\",\n  \"ops\": 80000,\n  \
                    \"overhead_pct\": 5.000,\n  \
                    \"label\": \"tab\\there \\\"quoted\\\" \\u0001\",\n  \
                    \"recovery\": [{\"records\": 4}]\n}\n";
        assert_eq!(t.json(), want);
        let dir = std::env::temp_dir().join("gtinker_bench_test_facts");
        t.write(dir.to_str().unwrap()).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("BENCH_unit_test_facts.json")).unwrap(), want);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "y", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(speedup(2.5), "2.50x");
    }
}
