//! Figure/table report structures with aligned text rendering and a
//! small JSON writer for the `results/` files.

use std::fmt;

/// One reproduced figure or table: labelled rows × named series.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier (`fig7r`, `tab1`, ...).
    pub id: String,
    /// Human title, matching the paper's caption.
    pub title: String,
    /// Series (column) names, e.g. the four schemes.
    pub series: Vec<String>,
    /// Unit of the values (e.g. "MB/s").
    pub unit: String,
    /// Data rows.
    pub rows: Vec<FigRow>,
}

/// One row of a figure.
#[derive(Debug, Clone)]
pub struct FigRow {
    /// X-axis label ("128+256", "9 procs", ...).
    pub label: String,
    /// One value per series.
    pub values: Vec<f64>,
}

impl Figure {
    /// New empty figure.
    pub(crate) fn new(id: &str, title: &str, series: &[&str], unit: &str) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            series: series.iter().map(ToString::to_string).collect(),
            unit: unit.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// If the value count does not match the series count.
    pub(crate) fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "row width mismatch");
        self.rows.push(FigRow { label: label.into(), values });
    }

    /// Value at (row label, series name), if present.
    pub(crate) fn value(&self, label: &str, series: &str) -> Option<f64> {
        let col = self.series.iter().position(|s| s == series)?;
        let row = self.rows.iter().find(|r| r.label == label)?;
        row.values.get(col).copied()
    }

    /// Ratio of two series on one row (`a / b`), e.g. MHA-over-DEF.
    pub fn ratio(&self, label: &str, a: &str, b: &str) -> Option<f64> {
        Some(self.value(label, a)? / self.value(label, b)?)
    }

    /// JSON object encoding, the form of one `results/<id>.json` file.
    /// Strings are escaped per RFC 8259 (quotes, backslashes, and control
    /// characters); non-finite values are rejected rather than emitted as
    /// the invalid tokens `NaN` / `inf`.
    pub fn to_json(&self) -> Result<String, FiguresJsonError> {
        let series: Vec<String> = self.series.iter().map(|s| json_str(s)).collect();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"series\": [{}],\n", series.join(", ")));
        out.push_str(&format!("  \"unit\": {},\n", json_str(&self.unit)));
        out.push_str("  \"rows\": [\n");
        for (ri, row) in self.rows.iter().enumerate() {
            let mut vals = Vec::with_capacity(row.values.len());
            for &v in &row.values {
                if !v.is_finite() {
                    return Err(FiguresJsonError {
                        figure: self.id.clone(),
                        row: row.label.clone(),
                        value: v,
                    });
                }
                vals.push(format!("{v}"));
            }
            out.push_str(&format!(
                "    {{ \"label\": {}, \"values\": [{}] }}{}\n",
                json_str(&row.label),
                vals.join(", "),
                if ri + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        Ok(out)
    }
}

/// `s` as a quoted JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A figure the JSON writer cannot represent (a NaN or infinite value —
/// JSON has no spelling for either).
#[derive(Debug, Clone, PartialEq)]
pub struct FiguresJsonError {
    /// The offending figure's id.
    pub figure: String,
    /// The row label holding the bad value.
    pub row: String,
    /// The value itself.
    pub value: f64,
}

impl fmt::Display for FiguresJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "figure {:?} row {:?} holds {}, which JSON cannot represent",
            self.figure, self.row, self.value
        )
    }
}

impl std::error::Error for FiguresJsonError {}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}  ({})", self.id, self.title, self.unit)?;
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once(4))
            .max()
            .expect("nonempty iterator");
        let col_w = self
            .series
            .iter()
            .map(|s| s.len().max(10))
            .collect::<Vec<_>>();
        write!(f, "  {:label_w$}", "")?;
        for (s, w) in self.series.iter().zip(&col_w) {
            write!(f, "  {s:>w$}", w = w)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "  {:label_w$}", row.label)?;
            for (v, w) in row.values.iter().zip(&col_w) {
                if v.abs() >= 1e6 || (v.abs() < 1e-3 && *v != 0.0) {
                    write!(f, "  {v:>w$.3e}", w = w)?;
                } else {
                    write!(f, "  {v:>w$.2}", w = w)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("fig7r", "IOR read", &["DEF", "MHA"], "MB/s");
        fig.push_row("128+256", vec![100.0, 180.0]);
        fig.push_row("64+512", vec![120.0, 200.0]);
        fig
    }

    #[test]
    fn value_and_ratio_lookup() {
        let f = sample();
        assert_eq!(f.value("128+256", "MHA"), Some(180.0));
        assert_eq!(f.value("nope", "MHA"), None);
        assert_eq!(f.value("128+256", "HARL"), None);
        assert!((f.ratio("128+256", "MHA", "DEF").unwrap() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn display_renders_all_rows() {
        let text = sample().to_string();
        assert!(text.contains("128+256"));
        assert!(text.contains("DEF"));
        assert!(text.contains("180.00"));
    }

    #[test]
    fn to_json_writes_the_results_object() {
        let expected = r#"{
  "id": "fig7r",
  "title": "IOR read",
  "series": ["DEF", "MHA"],
  "unit": "MB/s",
  "rows": [
    { "label": "128+256", "values": [100, 180] },
    { "label": "64+512", "values": [120, 200] }
  ]
}
"#;
        assert_eq!(sample().to_json().expect("finite values encode"), expected);
    }

    #[test]
    fn to_json_escapes_control_characters() {
        let mut f = Figure::new("x", "line\nbreak\ttab \"quoted\"", &["s\\1"], "MB/s");
        f.push_row("ctrl\u{1}", vec![1.0]);
        let json = f.to_json().expect("encodes");
        assert!(json.contains("line\\nbreak\\ttab \\\"quoted\\\""), "{json}");
        assert!(json.contains("s\\\\1"), "{json}");
        assert!(json.contains("ctrl\\u0001"), "{json}");
        assert!(!json.contains('\u{1}'), "raw control byte leaked: {json}");
    }

    #[test]
    fn to_json_rejects_non_finite_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut f = Figure::new("fig", "t", &["s1", "s2"], "MB/s");
            f.push_row("row", vec![1.0, bad]);
            let err = f.to_json().expect_err("non-finite must not encode");
            assert_eq!(err.figure, "fig");
            assert_eq!(err.row, "row");
            assert_eq!(err.value.to_bits(), bad.to_bits());
            assert!(err.to_string().contains("JSON cannot represent"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut f = sample();
        f.push_row("bad", vec![1.0]);
    }
}
