//! Terminal plotting for experiment TSVs: renders the regenerated figures
//! as ASCII line/bar charts so the paper's plots can be eyeballed without
//! leaving the terminal. Used by the `plot` binary.

/// A named numeric series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Y values, one per x position.
    pub values: Vec<f64>,
}

/// Parses a TSV produced by [`crate::report::Table::write`]: returns
/// `(caption, x labels from the first column, numeric series per remaining
/// column)`. Non-numeric cells (summary rows) terminate their row's
/// inclusion.
pub fn parse_tsv(content: &str) -> Result<(String, Vec<String>, Vec<Series>), String> {
    let mut lines = content.lines();
    let caption = lines.next().and_then(|l| l.strip_prefix("# ")).unwrap_or("").to_string();
    let header: Vec<&str> = lines.next().ok_or("missing header row")?.split('\t').collect();
    if header.len() < 2 {
        return Err("need at least two columns".into());
    }
    let mut xs = Vec::new();
    let mut series: Vec<Series> =
        header[1..].iter().map(|h| Series { name: h.to_string(), values: Vec::new() }).collect();
    for line in lines {
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != header.len() {
            continue;
        }
        // Keep only fully-numeric data rows (skips summary rows like
        // "degradation_pct" whose cells contain '-' or 'x' suffixes).
        let parsed: Option<Vec<f64>> = cells[1..].iter().map(|c| c.parse::<f64>().ok()).collect();
        if let Some(nums) = parsed {
            xs.push(cells[0].to_string());
            for (s, v) in series.iter_mut().zip(nums) {
                s.values.push(v);
            }
        }
    }
    Ok((caption, xs, series))
}

const GLYPHS: &[char] = &['o', '+', 'x', '*', '#', '@', '%', '&'];

/// Count-like columns that would dwarf the throughput series if plotted on
/// the same axis; `filter_series` drops them.
const COUNT_COLUMNS: &[&str] = &[
    "cum_edges",
    "cum_deleted",
    "live_edges",
    "edges",
    "edges_processed",
    "iterations",
    "iters",
    "branches",
    "max_depth",
    "paper_V",
    "paper_E",
    "scaled_V",
    "scaled_E",
    "FP_iters",
    "IP_iters",
];

/// Removes count-like metadata columns so the remaining series share a
/// meaningful y axis.
pub fn filter_series(series: Vec<Series>) -> Vec<Series> {
    series.into_iter().filter(|s| !COUNT_COLUMNS.contains(&s.name.as_str())).collect()
}

/// Renders series as a fixed-size ASCII chart with one glyph per series.
pub fn render_chart(
    caption: &str,
    xs: &[String],
    series: &[Series],
    width: usize,
    height: usize,
) -> String {
    let mut out = String::new();
    out.push_str(caption);
    out.push('\n');
    let max =
        series.iter().flat_map(|s| s.values.iter().copied()).fold(f64::NEG_INFINITY, f64::max);
    let n = xs.len();
    if n == 0 || !max.is_finite() || max <= 0.0 {
        out.push_str("(no numeric data)\n");
        return out;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (i, &v) in s.values.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let x = if n == 1 { 0 } else { i * (width - 1) / (n - 1) };
            let y = ((v / max) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x] = glyph;
        }
    }
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max:>9.2} |")
        } else if r == height - 1 {
            format!("{:>9.2} |", 0.0)
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>11}{}  ...  {}\n",
        "",
        xs.first().map(String::as_str).unwrap_or(""),
        xs.last().map(String::as_str).unwrap_or("")
    ));
    out.push_str("legend: ");
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("{}={}  ", GLYPHS[si % GLYPHS.len()], s.name));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "# caption here\n\
        batch\tGT\tSTINGER\n\
        1\t2.0\t1.0\n\
        2\t3.0\t0.5\n\
        total\t2.5\t0.7\n\
        degradation_pct\t-\t1.0\n";

    #[test]
    fn parses_numeric_rows_only() {
        let (caption, xs, series) = parse_tsv(SAMPLE).unwrap();
        assert_eq!(caption, "caption here");
        // 'total' row is numeric and kept; 'degradation_pct' has '-'.
        assert_eq!(xs, vec!["1", "2", "total"]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "GT");
        assert_eq!(series[0].values, vec![2.0, 3.0, 2.5]);
    }

    #[test]
    fn renders_with_legend_and_axes() {
        let (caption, xs, series) = parse_tsv(SAMPLE).unwrap();
        let chart = render_chart(&caption, &xs, &series, 40, 10);
        assert!(chart.contains("caption here"));
        assert!(chart.contains("o=GT"));
        assert!(chart.contains("+=STINGER"));
        assert!(chart.contains('o'));
        assert!(chart.lines().count() > 10);
    }

    #[test]
    fn filter_drops_count_columns() {
        let series = vec![
            Series { name: "cum_edges".into(), values: vec![1e6] },
            Series { name: "GT".into(), values: vec![2.0] },
        ];
        let kept = filter_series(series);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "GT");
    }

    #[test]
    fn empty_data_handled() {
        let (c, xs, series) = parse_tsv("# x\na\tb\n").unwrap();
        let chart = render_chart(&c, &xs, &series, 20, 5);
        assert!(chart.contains("no numeric data"));
    }

    #[test]
    fn bad_tsv_errors() {
        assert!(parse_tsv("").is_err());
        assert!(parse_tsv("# c\nonecol\n").is_err());
    }
}
