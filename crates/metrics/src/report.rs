//! Aligned text tables and CSV output.
//!
//! The experiment harness prints paper-style tables to stdout and writes CSV
//! series into `results/`. Both are implemented here without external
//! dependencies.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

/// Builds a column-aligned text table.
///
/// # Example
///
/// ```
/// use fifer_metrics::report::Table;
///
/// let mut t = Table::new(vec!["policy", "slo_violations"]);
/// t.row(vec!["Bline".to_string(), "0.02".to_string()]);
/// t.row(vec!["Fifer".to_string(), "0.02".to_string()]);
/// let s = t.render();
/// assert!(s.contains("policy"));
/// assert!(s.contains("Fifer"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Convenience: appends a row of mixed displayable cells.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Self {
        self.row(cells.iter().map(|c| c.to_string()).collect())
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with space-aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // trim trailing padding
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Serializes to CSV (headers first, RFC-4180 quoting where needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_line(&self.headers));
        for row in &self.rows {
            out.push_str(&csv_line(row));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_file(path, &self.to_csv())
    }
}

/// Creates (or truncates) `path` for buffered writing, creating parent
/// directories as needed. Callers must `flush` the writer to see write
/// errors.
///
/// # Errors
///
/// Returns any I/O error from directory or file creation.
pub fn create_file<P: AsRef<Path>>(path: P) -> io::Result<BufWriter<File>> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    Ok(BufWriter::new(File::create(path)?))
}

/// Writes `content` to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn write_file<P: AsRef<Path>>(path: P, content: &str) -> io::Result<()> {
    let mut w = create_file(path)?;
    w.write_all(content.as_bytes())?;
    w.flush()
}

/// Formats one CSV line with minimal RFC-4180 quoting.
fn csv_line(cells: &[String]) -> String {
    let mut out = String::new();
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
    out
}

/// Formats a float with `digits` decimal places — the standard cell format
/// used across the harness so CSVs stay diffable.
pub fn fmt_f64(v: f64, digits: usize) -> String {
    format!("{:.*}", digits, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long_header"]);
        t.row(vec!["xxxxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(Vec::<String>::new());
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn csv_plain_cells_unquoted() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1.5".into()]);
        assert_eq!(t.to_csv(), "x\n1.5\n");
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("fifer_metrics_test_report");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        let mut t = Table::new(vec!["h"]);
        t.row(vec!["v".into()]);
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "h\nv\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_f64_rounds() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(1.235, 2), "1.24");
    }

    #[test]
    fn row_display_stringifies() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row_display(&[&1.5_f64, &"x"]);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("1.5"));
    }
}
