//! Fixed-width ASCII tables and CSV output for experiment results.

use std::fmt::Write as _;
use std::io;

/// A simple column-aligned ASCII table builder.
///
/// ```
/// use ampsched_metrics::Table;
/// let mut t = Table::new(&["workload", "IPC/W core A", "IPC/W core B"]);
/// t.row(&["equake".into(), "0.412".into(), "0.287".into()]);
/// let s = t.render();
/// assert!(s.contains("equake"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with column alignment and a separator rule.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:<w$}", h, w = widths[i] + 2);
        }
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            for i in 0..ncols {
                let _ = write!(out, "{:<w$}", row[i], w = widths[i] + 2);
            }
            out.push('\n');
        }
        out
    }
}

/// Write rows as CSV (simple quoting: fields containing commas or quotes
/// are double-quoted).
pub fn write_csv<W: io::Write>(
    w: &mut W,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    fn field(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    writeln!(
        w,
        "{}",
        headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(",")
    )?;
    for row in rows {
        writeln!(
            w,
            "{}",
            row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_renders() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["long-name".into(), "2.35".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("long-name"));
        assert!(s.contains("2.35"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_quotes_specials() {
        let mut buf = Vec::new();
        write_csv(
            &mut buf,
            &["x", "y"],
            &[vec!["a,b".into(), "say \"hi\"".into()]],
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
    }
}
